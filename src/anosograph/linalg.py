"""Exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or Fractions and are never
coerced to floats, and products of int matrices stay int.  `det_bareiss`
takes int matrices only and stays in the integers throughout.

The row-space routines (`rref`, `reduce_mod_rows`, `in_row_space`,
`kernel_basis`) work on sparse rows {column: coeff} with no zero entries,
the columns being any mutually comparable keys; a row's pivot is its
smallest key.  Relation rows of a graded quotient live in one multidegree
each, so they have a handful of nonzeros among thousands of columns.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_copy(m):
    return [list(row) for row in m]


def mat_mul(a, b):
    n, mid, cols = len(a), len(b), len(b[0])
    out = [[0] * cols for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(mid):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_pow(a, e):
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    n = len(a)
    out = identity(n)
    base = mat_copy(a)
    while e:
        if e & 1:
            out = mat_mul(out, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return out


def is_integral(m):
    return all(Fraction(x).denominator == 1 for row in m for x in row)


def det_bareiss(m):
    """Determinant of a square int matrix by fraction-free (Bareiss)
    elimination.  Entries must be ints; every division is exact, so the
    result is an int, 0 for a singular matrix.
    """
    n = len(m)
    if n == 0:
        return 1
    b = mat_copy(m)
    prev = 1
    sign = 1
    for k in range(n - 1):
        if b[k][k] == 0:
            for i in range(k + 1, n):
                if b[i][k] != 0:
                    b[k], b[i] = b[i], b[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                b[i][j] = (b[i][j] * b[k][k] - b[i][k] * b[k][j]) // prev
            b[i][k] = 0
        prev = b[k][k]
    return sign * b[n - 1][n - 1]


def rref(rows):
    """Reduced row echelon form over Q of sparse rows {column: coeff}.

    Columns are any mutually comparable keys, and each row's pivot is its
    smallest key.  Rows are added one at a time: each is reduced modulo
    the rows so far, normalised on its smallest key, and that key is then
    eliminated from the earlier rows.  Returns (rref_rows, pivots), sorted
    ascending by pivot; zero rows are dropped.  The form is unique, so the
    pivots are the smallest columns a row space can have.
    """
    out, pivots = [], []
    for row in rows:
        r = reduce_mod_rows(out, pivots, row)
        if not r:
            continue
        p = min(r)
        inv = 1 / Fraction(r[p])
        r = {c: x * inv for c, x in r.items()}
        for earlier in out:
            f = earlier.get(p)
            if f:
                _add_multiple(earlier, -f, r)
        i = bisect_left(pivots, p)
        pivots.insert(i, p)
        out.insert(i, r)
    return out, pivots


def _add_multiple(x, a, y):
    """x += a*y in place, for sparse x and y; zero entries dropped."""
    for c, yc in y.items():
        v = x.get(c, 0) + a * yc
        if v:
            x[c] = v
        else:
            del x[c]


def in_row_space(rref_rows, pivots, vec):
    """Exact membership of the sparse vec in the row space of an rref basis."""
    return not reduce_mod_rows(rref_rows, pivots, vec)


def reduce_mod_rows(rref_rows, pivots, vec):
    """Residue of the sparse vec modulo the row space of an rref basis:
    vec minus the combination of rows that clears every pivot column.

    A row has zeros at the other rows' pivots, so only the pivots already
    in vec need clearing.  vec is not changed; zero entries are dropped.
    """
    out = {c: x for c, x in vec.items() if x}
    for c in vec:
        f = out.get(c)
        if f:
            i = bisect_left(pivots, c)
            if i < len(pivots) and pivots[i] == c:
                _add_multiple(out, -f, rref_rows[i])
    return out


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the sparse rows over columns 0..ncols-1,
    as sparse vectors, via rref; with no rows, the ncols unit vectors."""
    rr, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = {f: Fraction(1)}
            for row, p in zip(rr, pivots):
                if f in row:
                    v[p] = -row[f]
            basis.append(v)
    return basis
