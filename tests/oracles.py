"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than
the library: plain tensor coordinates instead of Lyndon bases, a dense
linear system for derivations, sympy resultants for eigenvalue products,
512-bit numeric root isolation for unit-circle classification and for
the roots of trace polynomials in [-2, 2], mpmath's roots rounded to
dyadic centers for schema-1 root disks, trial division for Euler's phi,
the primitive remainder sequence for the modular polynomial gcd, the
standard library's argparse for the CLI's argument parser, one test on
the product of all degree blocks' characteristic polynomials for the
per-degree hyperbolicity gate, and a search loop that tests every
candidate, with no skip and no memo, for the bounded search.
"""

import argparse
import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import mpmath

from anosograph.anosov import ExtensionError, extend_to_algebra
from anosograph.derivations import _BLOCK_PHASE_RAW_LIMIT
from anosograph.graphs import coherent_components, graph_from_edges
from anosograph.intpoly import IntPolynomial
from anosograph.spectra import char_poly, unit_root_free


# -- graph constructions -----------------------------------------------------

def complete_graph(n):
    vs = [f"v{i}" for i in range(n)]
    return graph_from_edges(vs, [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n):
    vs = [f"v{i}" for i in range(n)]
    return graph_from_edges(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def bipartite_graph(m, n):
    us = [f"u{i}" for i in range(m)]
    vs = [f"v{i}" for i in range(n)]
    return graph_from_edges(us + vs, [(u, v) for u in us for v in vs])


def magnet_graph(core, extra):
    cs = [f"c{i}" for i in range(core)]
    ts = [f"t{i}" for i in range(extra)]
    edges = [(cs[i], cs[j]) for i in range(core) for j in range(i + 1, core)]
    edges += [(c, t) for c in cs for t in ts]
    return graph_from_edges(cs + ts, edges)


def edgeless_graph(n):
    return graph_from_edges([f"v{i}" for i in range(n)], [])


def all_graphs_up_to_iso(n):
    """Canonical representatives of all isomorphism classes on n vertices."""
    pairs = list(combinations(range(n), 2))
    seen = set()
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        canon = min(
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
            for perm in permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            vs = [f"v{i}" for i in range(n)]
            out.append(graph_from_edges(vs, [(vs[u], vs[v]) for u, v in canon]))
    return out


def all_labeled_graphs(n):
    pairs = list(combinations(range(n), 2))
    vs = [f"v{i}" for i in range(n)]
    for mask in range(1 << len(pairs)):
        edges = [(vs[u], vs[v]) for i, (u, v) in enumerate(pairs) if mask >> i & 1]
        yield graph_from_edges(vs, edges)


# -- local exact linear algebra (kept separate from the package's) -----------

def local_rank(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c] / pv
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def local_kernel(rows, ncols):
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [x / pv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(c)
        rank += 1
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, p in zip(mat[:rank], pivots):
            v[p] = -row[free]
        basis.append(v)
    return basis


# -- free Lie algebra in tensor coordinates ----------------------------------

def is_lyndon(word):
    """A nonempty word strictly smaller than all of its proper rotations."""
    return len(word) > 0 and all(word < word[r:] + word[:r] for r in range(1, len(word)))


def standard_factorization(word):
    """uv with v the longest proper Lyndon suffix of the Lyndon word."""
    i = next(i for i in range(1, len(word)) if is_lyndon(word[i:]))
    return word[:i], word[i:]


def tensor_commutator(a, b):
    """ab - ba of two tensor-algebra elements {word: coeff}."""
    out = {}
    for wu, cu in a.items():
        for wv, cv in b.items():
            out[wu + wv] = out.get(wu + wv, 0) + cu * cv
            out[wv + wu] = out.get(wv + wu, 0) - cu * cv
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def bracket_tensor(word):
    """The bracketed Lyndon word b(word) expanded in the tensor algebra."""
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return tensor_commutator(bracket_tensor(u), bracket_tensor(v))


def lyndon_decompose(tensor):
    """Rewrite a homogeneous Lie element (tensor form) in the Lyndon basis.

    Triangularity: b(w) is w plus lexicographically larger words, so the
    least word of a Lie element is Lyndon and carries the basis coefficient.
    """
    work = {k: Fraction(c) for k, c in tensor.items() if c}
    out = {}
    while work:
        w = min(work)
        c = work[w]
        if not is_lyndon(w):
            raise ArithmeticError(f"leading word {w} is not Lyndon; input is not a Lie element")
        out[w] = c
        for t, ct in bracket_tensor(w).items():
            nv = work.get(t, 0) - c * ct
            if nv:
                work[t] = nv
            else:
                work.pop(t, None)
    return out


def free_bracket_tensor(u, v):
    """[b(u), b(v)] in the Lyndon basis, through the tensor algebra."""
    return lyndon_decompose(tensor_commutator(bracket_tensor(u), bracket_tensor(v)))


# -- independent degree-3 ideal elimination in tensor coordinates ------------

def deg3_dim_tensor(graph):
    """Degree-3 dimension of the 3-step graph algebra, via plain length-3
    tensor words: Witt number minus the rank of [V, J_2] expansions."""
    n = graph.n
    words = list(product(range(n), repeat=3))
    col = {w: i for i, w in enumerate(words)}
    rows = []
    nonedges = [(i, j) for i in range(n) for j in range(i + 1, n)
                if not graph.adjacent(i, j)]
    for v in range(n):
        for (i, j) in nonedges:
            t = {}
            for (a, b), c in (((i, j), 1), ((j, i), -1)):
                t[(v, a, b)] = t.get((v, a, b), 0) + c
                t[(a, b, v)] = t.get((a, b, v), 0) - c
            vec = [Fraction(0)] * len(words)
            for w, c in t.items():
                vec[col[w]] += c
            rows.append(vec)
    witt3 = (n ** 3 - n) // 3
    return witt3 - (local_rank(rows) if rows else 0)


def bipartite_deg3_formula(m, n):
    """The closed form reported for complete bipartite graphs."""
    return (m * (n - 1) ** 2 - (n - 2) * (n - 1) * m // 2
            + n * (m - 1) ** 2 - (m - 2) * (m - 1) * n // 2 + 2 * m * n)


# -- independent admissibility from the adjacency matrix ---------------------

def coherent_relation_brute(graph):
    """For each vertex a, the set of vertices b with N(a) ⊆ N[b] and
    N(b) ⊆ N[a], straight from the definition on the adjacency matrix."""
    n = graph.n
    nbhd = [{w for w in range(n) if graph.adjacent(a, w)} for a in range(n)]
    return [{b for b in range(n) if nbhd[a] <= nbhd[b] | {b} and nbhd[b] <= nbhd[a] | {a}}
            for a in range(n)]


def coherent_classes_brute(graph):
    """Coherent classes as ascending vertex lists, ordered by smallest
    member: each vertex's related set, taken in first-vertex order."""
    classes = []
    assigned = set()
    for v, related in enumerate(coherent_relation_brute(graph)):
        if v not in assigned:
            classes.append(sorted(related))
            assigned |= related
    return classes


def induces_connected(graph, vertices):
    """Whether the vertex indices induce a connected subgraph, by
    breadth-first search on the adjacency."""
    left = set(vertices)
    frontier = [left.pop()]
    while frontier:
        u = frontier.pop()
        reached = {v for v in left if graph.adjacent(u, v)}
        left -= reached
        frontier += reached
    return not left


def decide_anosov_brute(graph, k):
    """Admits iff no union S of coherent classes with |S| <= k induces a
    connected subgraph: every union of the brute-force classes is tried,
    with no reduction to single classes or pairs."""
    classes = coherent_classes_brute(graph)
    for r in range(1, len(classes) + 1):
        for union in combinations(classes, r):
            vertices = [v for cls in union for v in cls]
            if len(vertices) <= k and induces_connected(graph, vertices):
                return False
    return True


# -- dense derivation solver (the literal linear system) ---------------------

def derivations_dense(algebra):
    """Basis of {D : D[e_i,e_j] = [De_i,e_j] + [e_i,De_j]} as a dense
    kernel over all N^2 matrix unknowns."""
    n = algebra.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            bij = algebra.bracket_basis(i, j)
            for out in range(n):
                row = [Fraction(0)] * (n * n)
                # D[e_i,e_j] term
                for l, c in bij.items():
                    row[out * n + l] += c
                # -[De_i, e_j]: D e_i = sum_p D[p][i] e_p
                for p in range(n):
                    for l, c in algebra.bracket_basis(p, j).items():
                        if l == out:
                            row[p * n + i] -= c
                # -[e_i, De_j]
                for q in range(n):
                    for l, c in algebra.bracket_basis(i, q).items():
                        if l == out:
                            row[q * n + j] -= c
                if any(row):
                    rows.append(row)
    kernel = local_kernel(rows, n * n) if rows else [
        [Fraction(1) if t == s else Fraction(0) for t in range(n * n)]
        for s in range(n * n)
    ]
    return [[[v[i * n + j] for j in range(n)] for i in range(n)] for v in kernel]


def derivation_identity_holds(algebra, mat):
    """D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] on every basis pair, both sides
    from the structure constants alone."""
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            lhs = [Fraction(0)] * n
            for l, c in algebra.bracket_basis(i, j).items():
                for r in range(n):
                    lhs[r] += mat[r][l] * c
            rhs = [Fraction(0)] * n
            for p in range(n):
                for l, c in algebra.bracket_basis(p, j).items():
                    rhs[l] += mat[p][i] * c
                for l, c in algebra.bracket_basis(i, p).items():
                    rhs[l] += mat[p][j] * c
            if lhs != rhs:
                return False
    return True


# -- hyperbolicity on the product polynomial ---------------------------------

def product_hyperbolic(blocks):
    """Whether the product p of the degree blocks' characteristic
    polynomials is integral with constant term +-1 and no root of modulus
    1: the search's predicate before it gated degree by degree.  The
    factors are monic, so p is integral iff each factor is (Gauss), and
    p's constant term and roots are those of its factors together."""
    p = IntPolynomial([1])
    try:
        for m in sorted(blocks):
            p = p * char_poly(blocks[m])
    except ValueError:
        return False
    return abs(p.constant()) == 1 and unit_root_free(p).free


# -- the bounded search without skips or memos -------------------------------

def _det_laplace(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det_laplace([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def search_reference(algebra, entry_bound, budget, seed=0):
    """The finding matrices of `hyperbolic_search`, by a plain loop over
    the same candidate order: signed permutations, class-respecting
    block-diagonal maps (each class's unimodular box swept on its own,
    at most `budget` of them), then a seeded random stream, up to `budget`
    distinct candidates or the whole box.  Every distinct candidate is
    extended and tested with `product_hyperbolic`: none is skipped, no
    verdict is reused."""
    n = len(algebra.generators)
    box = range(-entry_bound, entry_bound + 1)
    rng = random.Random(seed)

    def signed_permutations():
        for perm in permutations(range(n)):
            for signs in product((1, -1), repeat=n):
                yield [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]

    def block_diagonal():
        classes = coherent_components(algebra.graph).classes
        if any(len(box) ** (len(c) ** 2) > _BLOCK_PHASE_RAW_LIMIT for c in classes):
            return
        per_class = []
        for cls in classes:
            d = len(cls)
            mats = ([list(e[i * d:(i + 1) * d]) for i in range(d)]
                    for e in product(box, repeat=d * d))
            per_class.append([a for a in mats if abs(_det_laplace(a)) == 1])
        for count, combo in enumerate(product(*per_class), 1):
            g = [[0] * n for _ in range(n)]
            for cls, a in zip(classes, combo):
                for r, vr in enumerate(cls):
                    for c, vc in enumerate(cls):
                        g[vr][vc] = a[r][c]
            yield g
            if count >= budget:
                return

    def random_stream():
        while True:
            yield [[rng.randint(-entry_bound, entry_bound) for _ in range(n)] for _ in range(n)]

    limit = min(budget, len(box) ** (n * n))
    found, seen = [], set()
    for stream in (signed_permutations(), block_diagonal(), random_stream()):
        for g in stream:
            if len(seen) >= limit:
                return found
            key = tuple(map(tuple, g))
            if key in seen or any(abs(x) > entry_bound for row in g for x in row):
                continue
            seen.add(key)
            try:
                blocks = extend_to_algebra(algebra, g)
            except ExtensionError:
                continue
            if product_hyperbolic(blocks):
                found.append(g)
    return found


# -- primitive PRS gcd, the reference for the modular poly_gcd ---------------

def prs_gcd(a, b):
    """Primitive gcd over Z with positive leading coefficient, by the
    primitive polynomial remainder sequence (Collins; Brown-Traub): each
    pseudo-remainder lc(b)^e * a mod b is made primitive before the next
    step."""
    a, b = a.primitive(), b.primitive()
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r = list(a.coeffs)
        lb = b.leading()
        while len(r) >= len(b.coeffs):
            shift, lr = len(r) - len(b.coeffs), r[-1]
            r = [c * lb for c in r]
            for j, c in enumerate(b.coeffs):
                r[shift + j] -= lr * c
            while r and r[-1] == 0:
                r.pop()
        a, b = b, IntPolynomial(r).primitive()
    return a.primitive()


def euler_phi(n):
    """Euler's phi by trial division."""
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


# -- a polynomial whose roots no 256-bit disks separate -----------------------

def mignotte_palindromic():
    """Mignotte's construction: p(x) = x^3 h(x + 1/x) with
    h(y) = (y - 3)^3 - 2(2^200 (y - 3) - 1)^2 is monic, palindromic and
    unimodular with no root on the unit circle, but two of its roots are
    about 2^-200 apart, too close for root disks at 256 bits."""
    y3 = IntPolynomial([-3, 1])
    z = 2 ** 200 * y3 - IntPolynomial([1])
    h = y3 * y3 * y3 - 2 * z * z
    p = IntPolynomial([])
    for j, c in enumerate(h.coeffs):
        term = IntPolynomial([0] * (3 - j) + [c])
        for _ in range(j):
            term = term * IntPolynomial([1, 0, 1])
        p = p + term
    assert p.degree == 6 and p.leading() == 1 and p.constant() == 1 and p.is_palindromic()
    return p


# -- 512-bit numeric unit-circle classification ------------------------------

def classify_unit_roots_512(coeffs):
    """'free' or 'not-free' by 512-bit root isolation; the threshold 2^-100
    cleanly separates algebraic on-circle roots from off-circle ones at
    this corpus's scale."""
    with mpmath.workprec(512):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=400, extraprec=512)
        tol = mpmath.mpf(2) ** -100
        for z in roots:
            if abs(abs(z) - 1) < tol:
                return "not-free"
    return "free"


def mpmath_trace_roots(coeffs):
    """The number of roots that `mpmath.polyroots` at 512 bits puts in
    [-2, 2] for the polynomial with ascending integer coefficients: real
    part within 2^-100 of the interval, imaginary part below 2^-100."""
    if len(coeffs) < 2:
        return 0
    with mpmath.workprec(512):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                 maxsteps=400, extraprec=512)
        tol = mpmath.mpf(2) ** -100
        return sum(1 for z in roots
                   if abs(mpmath.im(z)) < tol and -2 - tol <= mpmath.re(z) <= 2 + tol)


def mpmath_centers(coeffs, bits):
    """Disk centers (a, b), meaning (a + b*i)/2^bits, for schema-1 root
    disks of the polynomial with ascending integer coefficients:
    `mpmath.polyroots` at bits + 32 bits (plus `bits` extra inside), each
    coordinate rounded to the nearest multiple of 2^-bits.  Sorted by
    (|b|, a, b); None when polyroots does not converge in 200 sweeps."""
    with mpmath.workprec(bits + 32):
        try:
            roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(coeffs)],
                                     maxsteps=200, extraprec=bits)
        except mpmath.libmp.NoConvergence:
            return None
        centers = [(int(mpmath.nint(mpmath.re(z) * (1 << bits))),
                    int(mpmath.nint(mpmath.im(z) * (1 << bits)))) for z in roots]
    return sorted(centers, key=lambda c: (abs(c[1]), c[0], c[1]))


# -- sympy-based eigenvalue-product polynomials ------------------------------

def poly_sqrt_monic(coeffs_desc):
    """Exact square root of a monic even-degree integer polynomial."""
    t = [Fraction(c) for c in coeffs_desc]
    assert t[0] == 1 and (len(t) - 1) % 2 == 0
    n = (len(t) - 1) // 2
    s = [Fraction(0)] * (n + 1)
    s[0] = Fraction(1)
    for j in range(1, n + 1):
        acc = Fraction(0)
        for a in range(1, j):
            acc += s[a] * s[j - a]
        s[j] = (t[j] - acc) / 2
    # verify exactly
    check = [Fraction(0)] * (2 * n + 1)
    for a in range(n + 1):
        for b in range(n + 1):
            check[a + b] += s[a] * s[b]
    assert check == t, "polynomial is not a perfect square"
    assert all(c.denominator == 1 for c in s)
    return [int(c) for c in s]


def product_poly_subsets(matrix, r):
    """Descending coefficients of the monic polynomial whose roots are the
    eigenvalue products over r-subsets: resultants for r=2, the complement
    identity (products are det/lambda) for r=n-1, det itself for r=n.
    Written for even n; the corpus uses n=4."""
    import sympy

    n = len(matrix)
    assert n % 2 == 0
    x, z = sympy.symbols("x z")
    m = sympy.Matrix(matrix)
    p = m.charpoly(x).as_expr()
    asc = [int(v) for v in reversed(sympy.Poly(p, x).all_coeffs())]
    det = int(m.det())
    if r == 1:
        return list(reversed(asc))
    if r == n:
        return [1, -det]
    if r == n - 1:
        # z^n p(det/z) / p(0), valid at det = 0 by polynomial continuity
        desc = [1]
        for j in range(1, n):
            desc.append(asc[j] * det ** (j - 1))
        desc.append(det ** (n - 1))
        return desc
    if r == 2:
        q = sympy.expand(x ** n * p.subs(x, z / x))
        big = sympy.resultant(sympy.Poly(p, x), sympy.Poly(q, x, z), x)
        squares = sympy.resultant(sympy.Poly(p, x), sympy.Poly(x ** 2 - z, x, z), x)
        quo, rem = sympy.div(sympy.Poly(big, z), sympy.Poly(squares, z), z)
        assert rem == 0
        return poly_sqrt_monic([int(v) for v in quo.all_coeffs()])
    raise NotImplementedError(r)


# -- the CLI's arguments through argparse ------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def argparse_reference():
    """The CLI's arguments as an argparse parser: `parse_args` gives the
    namespace `anosograph.cli.parse_args` should give, and raises
    SystemExit(1) on a usage error and SystemExit(0) after help."""
    parser = _Parser(prog="anosograph")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_text):
        return sub.add_parser(
            name, help=help_text,
            formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    def common(p, k_default=None):
        p.add_argument("graph", help="edge-list file ('u v' lines, 'vertex: u', '#' comments)")
        if k_default is not None:
            p.add_argument("--k", type=int, default=k_default, help="nilpotency step")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = add_parser("analyze", "coherent partition and admissibility verdict")
    common(p, k_default=2)

    p = add_parser("dims", "per-degree dimensions of the graph algebra")
    common(p, k_default=2)

    p = add_parser("synthesize", "construct and certify a hyperbolic automorphism")
    common(p, k_default=2)
    p.add_argument("--out", help="also write the certificate JSON to this file")

    p = add_parser("verify", "independently verify a certificate file")
    common(p)
    p.add_argument("--certificate", required=True)

    p = add_parser("derivations", "derivation-algebra dimensions and quotient reports")
    common(p, k_default=2)
    p.add_argument("--quotient", help="quotient spec JSON sidecar (step 2 or 3)")

    p = add_parser("search", "bounded search for hyperbolic automorphisms")
    common(p, k_default=2)
    p.add_argument("--quotient", help="quotient spec JSON sidecar (step 2 or 3)")
    p.add_argument("--entry-bound", type=int, default=2)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    return parser
