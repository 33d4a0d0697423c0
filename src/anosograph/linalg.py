"""Exact linear algebra over the rationals.

Matrices are lists of rows; entries are ints or Fractions and are never
coerced to floats, and products of int matrices stay int.  `det_bareiss`
takes int matrices only and stays in the integers throughout.  `rref` is
the one place that divides; it stores a new row's integral quotients as
ints, so rows stay int while every pivot entry divides its row.

The row-space routines (`rref`, `reduce_mod_rows`, `kernel_basis`) work
on sparse rows {column: coeff} with no zero entries, the columns being
any mutually comparable keys; a row's pivot is its smallest key.  An
rref basis is one dict {pivot: row}, pivots ascending, each row 1 at its
pivot and 0 at the others.  Relation rows of a graded quotient live in
one multidegree each, so they have a handful of nonzeros among thousands
of columns and meet only the few stored rows whose pivots they hold.
"""

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
    """Reduced row echelon form over Q of a list of sparse rows, as the
    rref basis {pivot: row} of their row space; zero rows are dropped.

    Each row is first reduced on its smallest key by the stored row with
    that pivot until that key is a new pivot, where it is stored
    normalised.  One pass in descending pivot order then clears the larger
    pivots, whose rows are already reduced, from each row.  The form is
    unique, so the pivots are the smallest columns a row space can have.
    Normalising divides by the pivot entry, the one division in this
    module, and stores each integral quotient as an int.
    """
    echelon = {}
    for row in rows:
        r = {c: x for c, x in row.items() if x}
        while r:
            p = min(r)
            if p not in echelon:
                a = r[p]
                echelon[p] = {c: x // a if x % a == 0 else Fraction(x, a) for c, x in r.items()}
                break
            _add_multiple(r, -r[p], echelon[p])
    pivots = sorted(echelon)
    for p in reversed(pivots):
        r = echelon[p]
        for q in [c for c in r if c != p and c in echelon]:
            _add_multiple(r, -r[q], echelon[q])
    return {p: echelon[p] for p in pivots}


def _add_multiple(x, a, y):
    """x += a*y in place, for sparse x and y; zero entries dropped."""
    for c, yc in y.items():
        v = x.get(c, 0) + a * yc
        if v:
            x[c] = v
        else:
            del x[c]


def reduce_mod_rows(basis, vec):
    """Residue of the sparse vec modulo the row space of the rref basis
    {pivot: row}: vec minus the combination of rows that clears every
    pivot column.

    A row has zeros at the other rows' pivots, so only the pivots already
    in vec need clearing.  vec is not changed; zero entries are dropped.
    """
    out = {c: x for c, x in vec.items() if x}
    for c in vec:
        f = out.get(c)
        if f and c in basis:
            _add_multiple(out, -f, basis[c])
    return out


def kernel_basis(rows, ncols):
    """Basis of the right kernel of the sparse rows over columns 0..ncols-1,
    as sparse vectors, via rref; with no rows, the ncols unit vectors."""
    basis = rref(rows)
    kernel = []
    for f in range(ncols):
        if f not in basis:
            v = {f: 1}
            for p, row in basis.items():
                if f in row:
                    v[p] = -row[f]
            kernel.append(v)
    return kernel
