"""The routines of `linalg` against independent oracles.

Small seeded rational matrices, with zero, duplicate and dependent rows,
are fed to `rref`, `reduce_mod_rows` and `kernel_basis` as sparse rows
keyed by ints and by tuples (compared lexicographically, like Lyndon
words), and checked against `oracles.local_rank` and `local_kernel`.
`det_bareiss` is checked against sympy on seeded int matrices.
"""

import copy
import random
from fractions import Fraction

from anosograph import linalg
from oracles import local_kernel, local_rank


def random_matrix(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * ncols
        elif kind < 0.2 and rows:
            row = list(rng.choice(rows))
        elif kind < 0.35 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            row = [x + f * y for x, y in zip(a, b)]
        else:
            row = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.5 else 0
                   for _ in range(ncols)]
        rows.append(row)
    return rows


def tuple_keys(rng, ncols):
    keys = set()
    while len(keys) < ncols:
        keys.add(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
    return sorted(keys)


def sparse(row, keys):
    return {keys[c]: x for c, x in enumerate(row) if x}


def cases():
    rng = random.Random(20061)
    for _ in range(120):
        ncols = rng.randint(1, 7)
        dense = random_matrix(rng, rng.randint(0, 7), ncols)
        for keys in (list(range(ncols)), tuple_keys(rng, ncols)):
            yield dense, keys, [sparse(row, keys) for row in dense]


def test_rref_is_reduced_echelon_with_oracle_rank():
    for dense, keys, rows in cases():
        before = copy.deepcopy(rows)
        check_rref(dense, keys, rows)
        assert rows == before


def check_rref(dense, keys, rows):
    basis = linalg.rref(rows)
    pivots = list(basis)
    assert pivots == sorted(pivots)
    for p, row in basis.items():
        assert min(row) == p and row[p] == 1
        assert all(q not in row for q in pivots if q != p)
        assert all(x != 0 for x in row.values())
    assert len(basis) == local_rank(dense)
    # same row space: the rref rows add no rank to the input
    back = [[row.get(key, 0) for key in keys] for row in basis.values()]
    assert local_rank(dense + back) == len(basis)
    assert not any(linalg.reduce_mod_rows(basis, row) for row in rows)


def test_rref_of_many_shuffled_block_rows():
    # about 300 sparse rows in 100 disjoint blocks of 3 columns, like
    # relation rows that each live in one multidegree, shuffled across
    # blocks and keyed by tuples
    rng = random.Random(14)
    keys = set()
    while len(keys) < 300:
        keys.add(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 5))))
    keys = sorted(keys)
    dense = []
    for start in range(0, len(keys), 3):
        for row in random_matrix(rng, rng.randint(1, 5), 3):
            dense.append([0] * start + row + [0] * (len(keys) - start - 3))
    rng.shuffle(dense)
    assert 250 <= len(dense) <= 350
    check_rref(dense, keys, [sparse(row, keys) for row in dense])


def test_kernel_basis_matches_oracle():
    for dense, keys, rows in cases():
        if keys != list(range(len(keys))):
            continue
        expected = [sparse(v, keys) for v in local_kernel(dense, len(keys))]
        assert linalg.kernel_basis(rows, len(keys)) == expected


def test_reduce_mod_rows_leaves_input_and_clears_pivots():
    rng = random.Random(7)
    for dense, keys, rows in cases():
        basis = linalg.rref(rows)
        vec = sparse([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in keys], keys)
        vec_before, basis_before = dict(vec), copy.deepcopy(basis)
        residue = linalg.reduce_mod_rows(basis, vec)
        assert vec == vec_before and basis == basis_before
        assert not set(residue) & set(basis)
        assert all(x != 0 for x in residue.values())
        # vec - residue lies in the row space
        diff = [vec.get(key, 0) - residue.get(key, 0) for key in keys]
        assert local_rank(dense + [diff]) == local_rank(dense)


def test_rref_stores_integral_quotients_as_ints():
    basis = linalg.rref([{0: 2, 1: 4, 2: 3}, {1: Fraction(3), 2: Fraction(6)}])
    assert basis == {0: {0: 1, 2: Fraction(-5, 2)}, 1: {1: 1, 2: 2}}
    assert [type(x) for x in basis[1].values()] == [int, int]


def test_empty_input():
    assert linalg.rref([]) == {}
    assert linalg.rref([{}, {}]) == {}
    assert linalg.kernel_basis([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert linalg.reduce_mod_rows({}, {(0, 1): 2}) == {(0, 1): 2}


def test_det_bareiss_matches_sympy():
    import sympy

    rng = random.Random(2006)
    for t in range(300):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(n)]
        if n >= 2 and t % 3 == 0:
            # a zero pivot, and for every other matrix a dependent last row
            m[0][0] = 0
            if t % 2:
                f = rng.randint(-2, 2)
                m[-1] = [x + f * y for x, y in zip(m[0], m[1])]
        before = copy.deepcopy(m)
        det = linalg.det_bareiss(m)
        assert m == before
        assert type(det) is int
        assert det == sympy.Matrix(m).det()
