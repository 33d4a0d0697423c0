"""Independent oracles for the test suite.

Everything here recomputes expected values through a different route than
the library: plain tensor coordinates instead of Lyndon bases, a dense
linear system for derivations, sympy resultants for eigenvalue products,
and 512-bit numeric root isolation for unit-circle classification.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

import mpmath

from anosograph.graphs import graph_from_edges


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

def decide_anosov_brute(graph, k):
    """Conditions (i)-(ii) evaluated from scratch on the adjacency matrix."""
    n = graph.n
    adj = [[graph.adjacent(i, j) for j in range(n)] for i in range(n)]

    def related(a, b):
        if a == b:
            return True
        oa = {w for w in range(n) if adj[a][w]}
        ob = {w for w in range(n) if adj[b][w]}
        return oa <= ob | {b} and ob <= oa | {a}

    classes = []
    assigned = [False] * n
    for v in range(n):
        if assigned[v]:
            continue
        cls = [w for w in range(n) if related(v, w)]
        for w in cls:
            assigned[w] = True
        classes.append(cls)
    for cls in classes:
        if len(cls) < 2:
            return False
        if 2 <= len(cls) <= k:
            if any(adj[u][v] for u in cls for v in cls if u < v):
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
