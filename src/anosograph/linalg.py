"""Exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or Fractions and are never
coerced to floats.  Everything here is deterministic: row order in, row
order out.
"""

from __future__ import annotations

import math
from fractions import Fraction


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_copy(m):
    return [list(row) for row in m]


def mat_mul(a, b):
    n, mid, cols = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * cols for _ in range(n)]
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


def mat_eq(a, b):
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_integral(m):
    return all(Fraction(x).denominator == 1 for row in m for x in row)


def det_bareiss(m):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Accepts integer entries; rational input is cleared to integers first,
    row by row.  Returns an int, or a Fraction when the determinant is not
    integral; a singular matrix may come back as Fraction(0).
    """
    n = len(m)
    if n == 0:
        return 1
    den_scale = 1
    b = []
    for row in m:
        row = [Fraction(x) for x in row]
        lcm = math.lcm(*(x.denominator for x in row))
        den_scale *= lcm
        b.append([x.numerator * (lcm // x.denominator) for x in row])
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
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                b[i][j] = (b[i][j] * b[k][k] - b[i][k] * b[k][j]) // prev
            b[i][k] = 0
        prev = b[k][k]
    val = Fraction(sign * b[n - 1][n - 1], den_scale)
    return int(val) if val.denominator == 1 else val


def rref(rows, ncols=None):
    """Reduced row echelon form over Q.

    Returns (rref_rows, pivot_columns); zero rows are dropped.  Pivot
    preference is the leftmost column, so with lexicographically ordered
    columns the pivots land on the lexicographically smallest ones.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def in_row_space(rref_rows, pivots, vec):
    """Exact membership of vec in the row space given by an rref basis."""
    return not any(reduce_mod_rows(rref_rows, pivots, vec))


def reduce_mod_rows(rref_rows, pivots, vec):
    """Residue of vec modulo the row space (pivot coordinates eliminated)."""
    v = [Fraction(x) for x in vec]
    for row, p in zip(rref_rows, pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the matrix, via rref; with no rows,
    the ncols unit vectors."""
    rr, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rr, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis
