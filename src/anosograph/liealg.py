"""Graded nilpotent Lie algebras presented as quotients of free ones.

The free k-step nilpotent Lie algebra on the vertex space carries the
Lyndon basis from `lyndon`; a graph algebra is the quotient by the graded
ideal generated by brackets of non-adjacent vertices.  The ideal is
eliminated degree by degree as an exact row space of sparse rows keyed by
free Lyndon words, and the surviving (non-pivot) words form the quotient
basis.  Pivots are the lexicographically smallest words, so structure
constants are reproducible bit for bit.  The elimination is stored as one
normal-form table from each free word to its image in the quotient, which
is the projection (`project`) and gives every structure constant.  A
one-dimensional central quotient (`GradedLieAlgebra.quotient`) keeps the
elimination below the top degree and adds one row at the top.

An element of a `GradedLieAlgebra` is a sparse dict {basis index: coeff}
with no zero entries.  Lyndon expansions are integral and `linalg.rref`
stores a new row's integral quotients as ints, so coefficients are ints
unless the quotient's relations divide, which no graph algebra checked
(up to 5 vertices) needs.  Free-algebra coordinates (Lyndon words, the
relation row spaces) stay inside this module: maps defined on free
words, such as the extension of a degree-one map or a family of free
derivations (every member in one recursion), are pushed into the quotient
here, word by word along the standard factorization.

The closed forms `graph_algebra_dims` and `block_char_polys` both read the
Cartier-Foata identity prod_m det(1 - t^m g_m) = I_G(-t; g) and take its
independence sum with one routine, `_independence_sum`, over the coherent
classes, each class one item.  The sum takes each connected component of
the classes separately and multiplies the components' series.
"""

from functools import cached_property
from math import comb
from operator import add, mul, sub

from . import linalg
from .intpoly import IntPolynomial, from_power_sums, power_sums
from .lyndon import (free_bracket_words, lyndon_basis, mobius_inversion, standard_factorization,
                     witt_number)


def combine(terms):
    """The sum of c * x over (c, x) pairs, x sparse; zero entries dropped."""
    out = {}
    for c, x in terms:
        if c:
            for i, xi in x.items():
                out[i] = out.get(i, 0) + c * xi
    return {i: c for i, c in out.items() if c}


class Reduction:
    """Relation row space inside one free degree component, as the rref
    basis {pivot word: row} of `linalg.rref`, rows sparse {free Lyndon
    word: coeff}; pivots are the lexicographically smallest words."""

    __slots__ = ("words", "relations")

    def __init__(self, words, relations):
        self.words = words  # free Lyndon words of this degree, lex order
        self.relations = relations


class GradedLieAlgebra:
    """A quotient of a free k-step nilpotent Lie algebra, over exact rationals.

    The generators are the vertices of `graph`.  Basis elements are the
    surviving Lyndon words, globally indexed degree by degree;
    `struct[(i, j)]`, built on first use, holds the bracket [e_i, e_j] for
    i < j as a sparse map into basis indices.
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
        self._word = [w for m in range(1, k + 1) for w in self.basis_words[m]]
        index = {w: i for i, w in enumerate(self._word)}
        # normal forms: a basis word is its unit vector, and a pivot word p
        # of relation row r is -(r - p), the rest of its row
        self._normal_form = {w: {i: 1} for i, w in enumerate(self._word)}
        for red in reductions.values():
            for p, row in red.relations.items():
                self._normal_form[p] = {index[w]: -c for w, c in row.items() if w != p}

    def quotient(self, x):
        """This algebra modulo the central ideal of x, a sparse {free word:
        coeff} of the top degree k: x's row joins the degree-k rows, which
        rref keeps unique, so `build_graded_quotient` would give the same."""
        k = self.k
        red = self.reductions.get(k)
        if red is None or not set(x) <= set(red.words):
            raise ValueError(f"the relation is not over the degree-{k} Lyndon words")
        top = Reduction(red.words, linalg.rref([*red.relations.values(), x]))
        return GradedLieAlgebra(self.graph, k, {**self.reductions, k: top},
                                self.relation_generators + [(k, x)])

    # -- basis bookkeeping -------------------------------------------------

    def degree_of(self, i):
        return len(self._word[i])

    def word_of(self, i):
        return self._word[i]

    def word_label(self, word):
        return ".".join(self.generators[i] for i in word)

    def project(self, word):
        """The image of the free Lyndon word in this algebra, as a sparse
        element; the caller must not change it."""
        return self._normal_form[word]

    # -- brackets ----------------------------------------------------------

    @cached_property
    def struct(self):
        # degrees ascend with the index, so the partners j of i with
        # deg i + deg j <= top end where degree top - deg i + 1 begins;
        # brackets past the last built degree `top` are 0
        top, struct = max(self.reductions), {}
        for i in range(self.dim):
            for j in range(i + 1, self.offsets[top - len(self._word[i]) + 1]):
                expansion = free_bracket_words(self._word[i], self._word[j])
                entry = combine((c, self._normal_form[w]) for w, c in expansion.items())
                if entry:
                    struct[(i, j)] = entry
        return struct

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
        """w -> {c: D_c(w)} for free Lyndon words w.

        The D_c are a family of derivations of the free algebra pushed to
        this algebra: member c sends generator j to the nonzero sparse
        element images[j][c], and kills j if c is not a key of images[j].  One
        recursion D[u, v] = [Du, pi v] + [pi u, Dv] along the standard
        factorization, pi the projection, serves the whole family, memoized
        per word.  A member appears on w only if its image there is nonzero,
        so one that kills every letter of w never does.
        """
        pi, bracket = self.project, self.bracket
        memo = {(j,): img for j, img in enumerate(images)}

        def d(w):
            if w not in memo:
                u, v = standard_factorization(w)
                pv, pu = pi(v), pi(u)
                out = {c: bracket(x, pv) for c, x in d(u).items()}
                for c, y in d(v).items():
                    z = bracket(pu, y)
                    out[c] = combine(((1, out[c]), (1, z))) if c in out else z
                memo[w] = {c: z for c, z in out.items() if z}
            return memo[w]

        return d


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
    free_words = lyndon_basis(n, min(k, 2))
    reductions = {1: Reduction(words=list(free_words[1]), relations={})}
    for m in range(2, k + 1):
        if m not in free_words:
            free_words = lyndon_basis(n, min(k, 2 * m))
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


def graph_algebra_dims(partition, k):
    """`quotient_algebra(graph, k).dims` in closed form, from the graph's
    coherent partition, without building the algebra.

    Non-adjacent vertices commute, so the graph algebra is the free
    partially commutative Lie algebra truncated at step k, and its degree
    dimensions d_m satisfy prod_m (1 - t^m)^(d_m) = I(-t), with I the
    independence polynomial of the graph (Cartier-Foata and PBW), each
    vertex weighted -t, needed up to t^min(k, n) as I has degree at most n.
    An independent set meets an independent class of d vertices in any
    subset, a clique class (`partition.cliques`) in at most one vertex, and
    no two adjacent classes (`partition.masks`): `_independence_sum` takes
    each class as one item of weight (1 - t)^d - 1 or -d t, as
    `block_char_polys` does at g = 1, so a thousand isolated vertices are
    one item and a perfect matching is a product of quadratics.  Mobius
    inversion of -log I(-t) gives d_1..d_k.
    """
    top = min(k, partition.graph.n)
    weights = [[-len(cls)] if clique else
               [(-1) ** a * comb(len(cls), a) for a in range(1, min(len(cls), top) + 1)]
               for cls, clique in zip(partition.classes, partition.cliques)]
    coeffs = _independence_sum(partition.masks, weights, top)
    b = power_sums(coeffs, k)  # b[m] = m [t^m] -log I(-t)
    return [mobius_inversion(m)(b.__getitem__) for m in range(1, k + 1)]


def _components(neighbours, weights, top):
    """The connected components of the items under the neighbour bitmasks,
    as (bitmask, degree): an independent set of a component has weight of
    degree at most the total length of its items' weights, and top."""
    out = []
    left = (1 << len(neighbours)) - 1
    while left:
        part = frontier = left & -left
        degree = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            degree += len(weights[i])
            grown = neighbours[i] & ~part
            part |= grown
            frontier |= grown
        left &= ~part
        out.append((part, min(top, degree)))
    return out


def _independence_sum(neighbours, weights, top, one=1, zero=0, mul=mul, add=add):
    """[c_0, .., c_top], the sum of prod_{i in S} weights[i] over the
    independent sets S, up to t^top: item i has neighbour bitmask
    neighbours[i] and weight sum_a weights[i][a - 1] t^a, in the arithmetic
    mul, add, one, zero (ints, or columns).  A set grows in increasing item
    order; memoized on (items left, room left), it recurses one deeper than
    the degree summed.  An independent set is a union of one independent
    set per connected component, so the components are summed apart, each
    to its own degree, and their series multiplied: a perfect matching is
    a product of quadratics, not a recursion as deep as top."""
    memo = {}

    def total(mask, room):
        out = memo.get((mask, room))
        if out is None:
            out = [one] + [zero] * room
            rest = mask if room else 0
            while rest:
                low = rest & -rest
                rest ^= low  # the items after the one grown by
                i = low.bit_length() - 1
                sub = total(rest & ~neighbours[i], room - 1)
                for a, w in enumerate(weights[i][:room], 1):
                    for c, x in enumerate(sub[:room + 1 - a], a):
                        out[c] = add(out[c], mul(w, x))
            memo[mask, room] = out
        return out

    out, reach = [one] + [zero] * top, 0
    for part, degree in _components(neighbours, weights, top):
        series = total(part, degree)
        product = [zero] * (top + 1)
        for b, x in enumerate(series):
            for a, y in enumerate(out[:min(reach, top - b) + 1], b):
                product[a] = add(product[a], mul(y, x))
        out, reach = product, min(top, reach + degree)
    return out


def _columns_power_sums(f, n):
    """`power_sums` of several series at once, [None, p_1, .., p_n]: f[j]
    and p[m] are columns, one entry per series."""
    p = [None]
    for m in range(1, n + 1):
        acc = [-m * x for x in f[m]]
        for j in range(1, m):
            acc = list(map(sub, acc, map(mul, f[j], p[m - j])))
        p.append(acc)
    return p


def _columns_from_power_sums(p, n):
    """`from_power_sums` of several series at once, [f_0, .., f_n]: p[i]
    and f[j] are columns, one entry per series."""
    f = [[1] * len(p[1])]
    for j in range(1, n + 1):
        acc = [-x for x in p[j]]
        for i in range(1, j):
            acc = list(map(sub, acc, map(mul, p[i], f[j - i])))
        assert not any(a % j for a in acc), f"a column is not divisible by {j}"
        f.append([a // j for a in acc])
    return f


def block_char_polys(partition, class_polys, exponents, dims):
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
    class i has internal edges, and `_independence_sum` takes the sum over
    classes with these weights.  With b_n(g) = n [t^n] of -log of that
    sum, and g^s in place of g,

        tr(g_m^r) = (1/m) sum_{e | m} mu(m/e) b_e(g^(rm/e)),

    and Newton's identities turn tr(g_m^r), r = 1..dim g_m, into
    det(x - g_m); dims is [dim g_1, .., dim g_k] from `graph_algebra_dims`.
    A class's power sums tr(B_i^s) follow the linear recurrence of its
    characteristic polynomial.  Every division is exact; a remainder raises
    AssertionError.
    """
    cliques, sizes = partition.cliques, [len(cls) for cls in partition.classes]
    invert = [None] + [mobius_inversion(m) for m in range(1, len(dims) + 1)]

    def log_coefficients(class_sums, ss, top):
        """{s: b} for the s in ss, b[n] = b_n(g^s) for 1 <= n <= top, where
        class_sums[i][n] = tr(B_i^n).  The s are taken together: each
        coefficient is a column, one entry per s."""
        factors = []
        for i, p in enumerate(class_sums):
            if not cliques[i]:
                room = min(top, sizes[i])
                factors.append(_columns_from_power_sums(
                    [None] + [[p[j * s] for s in ss] for j in range(1, room + 1)], room)[1:])
            else:
                factors.append([[-p[s] for s in ss]])
        total = _independence_sum(partition.masks, factors, top, [1] * len(ss), [0] * len(ss),
                                  lambda x, y: [*map(mul, x, y)], lambda x, y: [*map(add, x, y)])
        b = _columns_power_sums(total, top)
        return {s: [0] + [b[n][w] for n in range(1, top + 1)] for w, s in enumerate(ss)}

    # the s with b_e(g^s) needed, s = rm/e for some r <= dim g_m, by the
    # largest such e
    top = {}
    for m, dim in enumerate(dims, 1):
        for e, _ in invert[m].pairs:
            for r in range(1, dim + 1):
                s = r * m // e
                top[s] = max(top.get(s, 0), e)
    groups = {}
    for s, e in top.items():
        groups.setdefault(e, []).append(s)
    class_sums = []
    for i, (poly, exponent) in enumerate(zip(class_polys, exponents)):
        d = poly.degree
        reach = max((max(ss) * (1 if cliques[i] else min(e, d))
                     for e, ss in groups.items()), default=0)
        f = list(reversed(poly.coeffs))  # det(1 - tA)
        if exponent != 1:  # det(1 - tA^e) from tr(A^(je)), j <= d
            f = from_power_sums(power_sums(f, d * exponent)[::exponent], d)
        class_sums.append(power_sums(f, reach))
    b = {}
    for e, ss in groups.items():
        b.update(log_coefficients(class_sums, ss, e))
    polys = {}
    for m, dim in enumerate(dims, 1):
        traces = [dim] + [invert[m](lambda e: b[r * m // e][e]) for r in range(1, dim + 1)]
        polys[m] = IntPolynomial(from_power_sums(traces, dim)[::-1])
    return polys
