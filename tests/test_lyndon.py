import pytest

from anosograph.lyndon import (
    free_bracket_words,
    lyndon_basis,
    lyndon_words,
    mobius_inversion,
    standard_factorization,
    witt_number,
)
from oracles import (
    bracket_tensor,
    free_bracket_tensor,
    is_lyndon,
    lyndon_decompose,
    standard_factorization as rotation_factorization,
)


def test_witt_examples():
    assert [witt_number(2, m) for m in (1, 2, 3)] == [2, 1, 2]
    assert [witt_number(4, m) for m in (1, 2, 3)] == [4, 6, 20]
    assert [witt_number(1, m) for m in (1, 2, 3)] == [1, 0, 0]


def test_lyndon_basis_dims():
    def dims(n, k):
        return [len(lyndon_basis(n, k)[m]) for m in range(1, k + 1)]

    assert dims(2, 3) == [2, 1, 2]
    assert dims(4, 3) == [4, 6, 20]
    assert dims(1, 3) == [1, 0, 0]


def test_lyndon_basis_rejects_zero_step():
    with pytest.raises(ValueError):
        lyndon_basis(3, 0)


def test_words_are_lyndon_and_sorted():
    words = lyndon_words(3, 4)
    for m, lst in words.items():
        assert lst == sorted(lst)
        for w in lst:
            assert len(w) == m and is_lyndon(w)


def test_standard_factorization_parts_are_lyndon():
    for m, lst in lyndon_words(3, 5).items():
        if m < 2:
            continue
        for w in lst:
            u, v = standard_factorization(w)
            assert (u, v) == rotation_factorization(w)
            assert is_lyndon(u) and is_lyndon(v)
            assert u < v


def test_bracket_tensor_triangular():
    # b(w) = w + (lexicographically larger words)
    for w in lyndon_words(2, 5)[4]:
        t = bracket_tensor(w)
        assert t[w] == 1
        assert all(u >= w for u in t)


def test_lyndon_decompose_round_trip():
    words = lyndon_words(3, 4)
    for w in words[3] + words[4]:
        dec = lyndon_decompose(dict(bracket_tensor(w)))
        assert dec == {w: 1}


def _words(n, max_len):
    return [w for lst in lyndon_words(n, max_len).values() for w in lst]


def test_free_bracket_matches_tensor_oracle():
    for n, max_degree in ((3, 6), (4, 5)):
        words = _words(n, max_degree - 1)
        for u in words:
            for v in words:
                if len(u) + len(v) <= max_degree:
                    got = free_bracket_words(u, v)
                    assert got == free_bracket_tensor(u, v), (u, v)
                    assert all(type(c) is int for c in got.values())


def test_free_bracket_antisymmetry_and_jacobi():
    # from free_bracket_words alone, extended bilinearly to sparse elements
    def bracket(x, y):
        out = {}
        for u, cu in x.items():
            for v, cv in y.items():
                for w, c in free_bracket_words(u, v).items():
                    out[w] = out.get(w, 0) + cu * cv * c
        return {w: c for w, c in out.items() if c}

    words = _words(3, 4)
    for u in words:
        assert free_bracket_words(u, u) == {}
        for v in words:
            if len(u) + len(v) <= 6:
                assert free_bracket_words(u, v) == {w: -c for w, c in free_bracket_words(v, u).items()}
    for a in words:
        for b in words:
            for c in words:
                if len(a) + len(b) + len(c) <= 6:
                    x, y, z = {a: 1}, {b: 1}, {c: 1}
                    jacobi = {}
                    for term in (bracket(bracket(x, y), z), bracket(bracket(y, z), x),
                                 bracket(bracket(z, x), y)):
                        for w, cw in term.items():
                            jacobi[w] = jacobi.get(w, 0) + cw
                    assert not any(jacobi.values()), (a, b, c)


def test_witt_consistency_with_generation():
    for n in (2, 3, 5):
        words = lyndon_words(n, 4)
        for m in range(1, 5):
            assert len(words[m]) == witt_number(n, m)


def test_mobius_inversion_inverts_the_divisor_sum():
    # b(n) = sum_{j | n} j d_j, built forward from an arbitrary d
    d = [None, 3, -1, 4, 1, -5, 9, 2, -6, 5, 3, -5, 8]
    for m in range(1, len(d)):
        inverse = mobius_inversion(m)
        assert inverse(lambda n: sum(j * d[j] for j in range(1, n + 1) if n % j == 0)) == d[m]
        assert [e for e, _ in inverse.pairs] == [
            e for e in range(1, m + 1) if m % e == 0 and all((m // e) % (p * p) for p in (2, 3))]
