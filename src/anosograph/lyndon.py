"""Lyndon-word bases of free Lie algebras.

Words are tuples of generator indices.  A Lyndon word is strictly smaller
than all of its proper rotations; the standard (right) factorization of a
Lyndon word w of length >= 2 is w = uv with v its longest proper Lyndon
suffix, and the bracketed words [b(u), b(v)] form a basis of the free Lie
algebra in each multidegree.  Expansions in the tensor algebra are
triangular against the lexicographic order, which is what makes rewriting
a Lie element into this basis a finite pivot chase.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def is_lyndon(word):
    n = len(word)
    if n == 0:
        return False
    for r in range(1, n):
        if word[r:] + word[:r] <= word:
            return False
    return True


def lyndon_words(n_letters, max_len):
    """All Lyndon words over 0..n_letters-1 of length 1..max_len, by degree.

    Duval's generation; each degree list comes out lexicographically sorted.
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
    for m in by_degree:
        by_degree[m].sort()
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


def tensor_commutator(a, b):
    out = {}
    for wu, cu in a.items():
        for wv, cv in b.items():
            c = cu * cv
            if c:
                k = wu + wv
                out[k] = out.get(k, 0) + c
                k = wv + wu
                out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def bracket_tensor(word):
    """Expansion of the bracketed Lyndon word in the tensor algebra.

    Returns a dict mapping words (tuples) to integer coefficients.
    """
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return tensor_commutator(bracket_tensor(u), bracket_tensor(v))


def lyndon_decompose(tensor):
    """Rewrite a homogeneous Lie element (tensor form) in the Lyndon basis.

    Relies on triangularity: the lexicographically least word of a Lie
    element is Lyndon and carries the same coefficient as the basis term.
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
            nv = work.get(t, Fraction(0)) - c * ct
            if nv:
                work[t] = nv
            else:
                work.pop(t, None)
    return out


@lru_cache(maxsize=None)
def free_bracket_words(u, v):
    """[b(u), b(v)] expanded in the Lyndon basis of degree len(u)+len(v).

    Returns a dict word -> Fraction (integral in practice).
    """
    t = tensor_commutator(bracket_tensor(u), bracket_tensor(v))
    return lyndon_decompose(t)


def _mobius(n):
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt_number(n, m):
    """Dimension of degree m of the free Lie algebra on n generators."""
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += _mobius(d) * n ** (m // d)
            e = m // d
            if e != d:
                total += _mobius(e) * n ** d
        d += 1
    return total // m


@dataclass(frozen=True)
class LyndonBasis:
    """Per-degree Lyndon words of the free k-step algebra."""

    n: int
    k: int
    words: dict  # degree -> ordered list of word tuples

    @property
    def dims(self):
        return [len(self.words[m]) for m in range(1, self.k + 1)]


def lyndon_basis(n, k):
    """Lyndon basis of the free k-step nilpotent Lie algebra on n generators."""
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
    return LyndonBasis(n=n, k=k, words=words)
