"""Lyndon-word bases of free Lie algebras.

Words are tuples of generator indices.  A Lyndon word is strictly smaller
than all of its proper rotations; the standard (right) factorization of a
Lyndon word w of length >= 2 is w = uv with v its longest proper Lyndon
suffix, and the bracketed words b(w) = [b(u), b(v)] form a basis of the
free Lie algebra in each multidegree.

The Lyndon words with their standard factorizations form a Hall set
(Reutenauer, *Free Lie Algebras*, 1993), so the bracket of two basis
elements is rewritten inside the basis, with integer coefficients.  Take
u < v (if u > v, [u, v] = -[v, u]; [u, u] = 0).  Then uv is Lyndon, and its
standard factorization is (u, v) exactly when u is a letter or u = u1 u2
(standard) with u2 >= v; in that case [b(u), b(v)] = b(uv).  Otherwise
u2 < v, and the Jacobi identity gives

    [u, v] = [[u1, u2], v] = [u1, [u2, v]] + [[u1, v], u2],

with each inner bracket rewritten by the same rule.

The rewriting terminates, by induction on the total length and then on
max(u, v) in lexicographic order, together with the claim that every word
in the result lies below max(u, v).  The Lyndon word uv lies below its suffix
v.  [u2, v] and [u1, v] have a shorter total length, so their words t and s
lie below v; the calls [u1, t] and [s, u2] keep the total length, and both
arguments of each lie below v, since u1 < u < v and u2 < v.
"""

from functools import lru_cache


def lyndon_words(n_letters, max_len):
    """All Lyndon words over 0..n_letters-1 of length 1..max_len, by degree.

    Duval's generation emits them in lexicographic order, so each degree
    list comes out sorted.
    """
    by_degree = {m: [] for m in range(1, max_len + 1)}
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        by_degree[m].append(tuple(w))
        while len(w) < max_len:
            w.append(w[len(w) % m])
        while w and w[-1] == n_letters - 1:
            w.pop()
    return by_degree


def standard_factorization(word):
    """Split a Lyndon word of length >= 2 as uv, v the longest proper Lyndon suffix.

    Equivalently v is the lexicographically smallest proper suffix.
    """
    assert len(word) >= 2
    best = 1
    for i in range(2, len(word)):
        if word[i:] < word[best:]:
            best = i
    return word[:best], word[best:]


@lru_cache(maxsize=None)
def free_bracket_words(u, v):
    """[b(u), b(v)] expanded in the Lyndon basis of degree len(u)+len(v).

    Returns a dict word -> int with no zero entries, by the Hall rewriting
    of the module docstring; the caller must not change it.
    """
    if u == v:
        return {}
    if u > v:
        return {w: -c for w, c in free_bracket_words(v, u).items()}
    if len(u) == 1:
        return {u + v: 1}
    u1, u2 = standard_factorization(u)
    if u2 >= v:
        return {u + v: 1}
    terms = [(c, free_bracket_words(u1, t)) for t, c in free_bracket_words(u2, v).items()]
    terms += [(c, free_bracket_words(s, u2)) for s, c in free_bracket_words(u1, v).items()]
    out = {}
    for c, x in terms:
        for w, cw in x.items():
            out[w] = out.get(w, 0) + c * cw
    return {w: c for w, c in out.items() if c}


@lru_cache(maxsize=None)
def mobius_inversion(m):
    """The degree-m Mobius inversion b -> (1/m) sum_{e | m} mu(m/e) b(e): for
    b(n) = n [t^n] -log prod_j (1 - t^j)^(d_j) = sum_{j | n} j d_j it gives
    d_m.  b is called on the e with mu(m/e) != 0; the returned function
    keeps its table [(e, mu(m/e))], ascending in e, as `pairs`, which the
    caller must not change.  One function per m serves every caller: a
    `dims` call reads each m twice, a synthesis once per rung.  The
    division is exact: a remainder means a wrong identity and raises
    AssertionError."""
    pairs = [(m, 1)]  # (e, mu(m/e)) for the squarefree m/e, by trial division
    n, p = m, 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            pairs += [(e // p, -mu) for e, mu in pairs]
            while n % p == 0:
                n //= p
        p += 1
    pairs.sort()

    def invert(b):
        total = 0
        for e, mu in pairs:
            total += mu * b(e)
        q, r = divmod(total, m)
        assert r == 0, f"the degree-{m} Mobius sum is not divisible by {m}"
        return q

    invert.pairs = pairs
    return invert


def witt_number(n, m):
    """Dimension of degree m of the free Lie algebra on n generators."""
    return mobius_inversion(m)(lambda e: n ** e)  # prod_j (1 - t^j)^(d_j) = 1 - nt


def lyndon_basis(n, k):
    """Lyndon basis of the free k-step nilpotent Lie algebra on n generators,
    as {degree: sorted list of word tuples} for degrees 1..k."""
    if k < 1:
        raise ValueError("step k must be >= 1")
    if n < 1:
        raise ValueError("need at least one generator")
    words = lyndon_words(n, k)
    for m in range(1, k + 1):
        expected = witt_number(n, m)
        if len(words[m]) != expected:
            raise ArithmeticError(
                f"degree {m}: {len(words[m])} Lyndon words, Witt number {expected}"
            )
    return words
